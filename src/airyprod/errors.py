"""Exception hierarchy shared by all airyprod modules."""


class AiryprodError(Exception):
    """Base class for all errors raised by this package."""


class NonFiniteInput(AiryprodError):
    """An input contained NaN or infinity."""


class EnvelopeExceeded(AiryprodError):
    """Argument magnitude outside the accuracy envelope of the evaluator."""


class InvalidKindForSector(AiryprodError):
    """Requested contour kind is neither a ``ContourKind`` nor a pair of
    two different end names.

    Every path is defined in every shift sector, so only an unknown kind
    raises this.
    """


class DegenerateGeometry(AiryprodError):
    """Contour truncation radius would exceed its ceiling (|z + z0/2| > 231.03)."""


class ToleranceNotMet(AiryprodError):
    """Adaptive quadrature stopped above its tolerance.

    It stops at the node ceiling, on a rounding plateau or on a
    non-finite value (the result's ``stop`` says which); the time
    integral of the Green's function also raises this when its tail
    radius diverges.  The best available estimate, if any, is attached
    as the ``result`` attribute.
    """

    def __init__(self, message, result=None):
        super().__init__(message)
        self.result = result


class EndpointSingularity(AiryprodError):
    """The k -> 0 endpoint substitution failed to regularize the integrand.

    Raised for a decay leg, of I_C or of the Green's-function time
    integral, that points out of the sector where the integrand decays.
    """


class NegativeShift(AiryprodError):
    """Real-axis half-line formula requested for a negative shift."""


class ZeroField(AiryprodError):
    """Closed-form field Green's function requested at zero field strength."""


class CoincidentPoints(AiryprodError):
    """Green's function evaluated at r == r', on top of the 1/|r-r'| pole."""
