"""Exception hierarchy shared by all airyprod modules."""


class AiryprodError(Exception):
    """Base class for all errors raised by this package."""


class NonFiniteInput(AiryprodError):
    """An input contained NaN or infinity."""


class EnvelopeExceeded(AiryprodError):
    """Argument magnitude outside the accuracy envelope of the evaluator."""


class InvalidKindForSector(AiryprodError):
    """Requested contour kind is not defined for the given shift sector."""


class DegenerateGeometry(AiryprodError):
    """Contour truncation radius would exceed its ceiling (|z + z0/2| > 231.03)."""


class ToleranceNotMet(AiryprodError):
    """Adaptive quadrature stopped at the node ceiling above tolerance.

    The best available estimate is attached as the ``result`` attribute.
    """

    def __init__(self, message, result=None):
        super().__init__(message)
        self.result = result


class EndpointSingularity(AiryprodError):
    """The k -> 0 endpoint substitution failed to regularize the integrand.

    Signals a path whose inner leg points out of the internal valley.
    """


class NegativeShift(AiryprodError):
    """Real-axis half-line formula requested for a negative shift."""


class ZeroField(AiryprodError):
    """Closed-form field Green's function requested at zero field strength."""


class CoincidentPoints(AiryprodError):
    """Green's function evaluated at r == r', on top of the 1/|r-r'| pole."""
