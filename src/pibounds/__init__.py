"""pibounds: certified rational and interval enclosures of pi.

The package brackets pi with the perimeters of inscribed and circumscribed
regular polygons (n = 3 * 2**k), computed in exact directed-rounded interval
arithmetic over unbounded integers, then derives small-denominator rational
bounds such as 245/78 < pi < 22/7 from continued-fraction convergents.
Classical series (Madhava-Gregory-Leibniz, Nilakantha, Brouncker, Wallis,
Viete) are included for convergence comparison.
"""

from .contfrac import (
    BoundCandidate,
    BoundExpansion,
    CertifiedBounds,
    ContinuedFraction,
    Convergent,
    NoValidBound,
    bound_expansion,
    certified_rational_bounds,
    convergents,
    expand,
    parse_decimal,
    reconstruct,
)
from .exactnum import (
    PI_REFERENCE,
    DivisionByZeroInterval,
    Interval,
    NegativeRadicand,
    PiBoundsError,
    Rational,
    Side,
    UsageError,
    decimal_str,
    interval_arith,
    interval_sqrt,
    make_interval,
    side_of,
)
from .polygon import (
    PolygonBounds,
    PrecisionExhausted,
    RadicalExpr,
    ResourceLimit,
    bounds_at,
    eval_radical,
    halve_angle,
    ladder,
    nested_radical_form,
    parse_radical_expr,
    seed_state,
)
from .series import (
    SERIES_NAMES,
    SeriesEstimate,
    convergence_report,
    evaluate_series,
)

__all__ = [
    "BoundCandidate",
    "BoundExpansion",
    "CertifiedBounds",
    "ContinuedFraction",
    "Convergent",
    "DivisionByZeroInterval",
    "Interval",
    "NegativeRadicand",
    "NoValidBound",
    "PI_REFERENCE",
    "PiBoundsError",
    "PolygonBounds",
    "PrecisionExhausted",
    "RadicalExpr",
    "Rational",
    "ResourceLimit",
    "SERIES_NAMES",
    "SeriesEstimate",
    "Side",
    "UsageError",
    "bound_expansion",
    "bounds_at",
    "certified_rational_bounds",
    "convergence_report",
    "convergents",
    "decimal_str",
    "eval_radical",
    "evaluate_series",
    "expand",
    "halve_angle",
    "interval_arith",
    "interval_sqrt",
    "ladder",
    "make_interval",
    "nested_radical_form",
    "parse_decimal",
    "parse_radical_expr",
    "seed_state",
    "side_of",
]

__version__ = "0.1.0"
