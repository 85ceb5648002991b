"""Exception hierarchy shared by all airyprod modules."""


class AiryprodError(Exception):
    """Base class for all errors raised by this package."""


class NonFiniteInput(AiryprodError):
    """An input contained NaN or infinity."""


class EnvelopeExceeded(AiryprodError):
    """Argument magnitude outside the accuracy envelope of the evaluator."""


class DegenerateGeometry(AiryprodError):
    """No usable integration path exists.

    Raised only in ``quadrature``: by ``tail_radius`` when a path's tail
    would reach past its cap (radius 80 for a contour, which happens
    beyond |z + z0/2| = 231.03, and t = 1e8 for the time integral), by
    ``check_reach`` when the time integral's stationary point lies past
    t = 1e8, and by the first round of ``integrate_legs`` when the
    integrand of a decay leg, of either integral, is finite at the leg's
    inner end but does not decay there (read on that round's nodes,
    before any exponential).
    """


class ToleranceNotMet(AiryprodError):
    """Adaptive quadrature stopped above its tolerance.

    Raised only by ``quadrature.integrate_legs``.  It stops at the node
    ceiling, on a rounding plateau or on a non-finite value; the
    unconverged ``QuadResult``, whose ``stop`` says which, is attached as
    the ``result`` attribute.
    """

    def __init__(self, message, result=None):
        super().__init__(message)
        self.result = result


class NegativeShift(AiryprodError):
    """Real-axis half-line formula requested for a negative shift."""


class ZeroField(AiryprodError):
    """Closed-form field Green's function requested at zero field strength."""


class CoincidentPoints(AiryprodError):
    """Green's function evaluated at r == r', on top of the 1/|r-r'| pole."""
