"""airyprod: products of Airy-equation solutions with shifted arguments.

A numpy-based library for

* a self-contained reference evaluator of Ai(z), Ai'(z) at complex
  argument (`airy`, `airy_batch`),
* the half-line Laplace contour integrals representing the four basis
  products U+-, W+- and, through fixed linear combinations, all nine
  products of Ai at rotated, shifted arguments (`contours`, `products`),
* real-axis specializations of those representations, and
* the closed-form outgoing-wave Green's function of an electron in a
  uniform static electric field, cross-checked against direct quadrature
  of its time-integral form (`greens`).

Every representation can be evaluated along two independent routes
(reference evaluator vs. contour quadrature), which is what the test
suite and the `airyprod verify` command exercise.
"""

__version__ = "0.1.0"

from .contours import (
    ContourKind,
    ContourPath,
    Sector,
    ShiftedArgs,
    build_contour,
    classify_sector,
    laplace_integral,
    saddles,
)
from .errors import (
    AiryprodError,
    CoincidentPoints,
    DegenerateGeometry,
    EnvelopeExceeded,
    NegativeShift,
    NonFiniteInput,
    ToleranceNotMet,
    ZeroField,
)
from .greens import (
    GreensParams,
    ScaledVars,
    greens_closed,
    greens_free,
    greens_time_integral,
    operator_residual,
    scaled_vars,
)
from .oracle import AiryValue, airy, airy_batch
from .products import (
    ProductValue,
    Rotation,
    Route,
    aiai_real,
    difference_identity,
    ode_residual_reduced_batch,
    ode_residual_w_batch,
    product,
    u_pm,
    w_pm,
    w_pm_real,
)
from .quadrature import QuadResult

__all__ = [
    "AiryValue", "airy", "airy_batch",
    "Sector", "ContourKind", "ShiftedArgs", "ContourPath",
    "classify_sector", "build_contour", "laplace_integral", "saddles",
    "QuadResult",
    "Route", "Rotation", "ProductValue",
    "u_pm", "w_pm", "product", "difference_identity",
    "w_pm_real", "aiai_real", "ode_residual_w_batch", "ode_residual_reduced_batch",
    "GreensParams", "ScaledVars", "scaled_vars",
    "greens_closed", "greens_time_integral", "greens_free", "operator_residual",
    "AiryprodError", "NonFiniteInput", "EnvelopeExceeded",
    "DegenerateGeometry", "ToleranceNotMet", "NegativeShift",
    "ZeroField", "CoincidentPoints",
]
