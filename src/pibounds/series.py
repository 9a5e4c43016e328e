"""Classical formulas for pi, evaluated exactly.

Five truncation families, each converted to a pi estimate:

  leibniz      pi/4 = 1 - 1/3 + 1/5 - 1/7 + ...            (N summands)
  nilakantha   pi/4 = 3/4 + 1/(2*3*4) - 1/(4*5*6) + ...    (3/4 counts as term 1)
  brouncker    4/pi = 1 + 1^2/(2 + 3^2/(2 + 5^2/(2 + ...)))  (N nested levels)
  wallis       pi/2 = (2/1 * 2/3) * (4/3 * 4/5) * ...      (N two-factor groups)
  viete        2/pi = (sqrt(2)/2) * (sqrt(2+sqrt(2))/2) * ...  (N radical factors)

The first four truncations are rational, so they are evaluated in exact
rational arithmetic with no rounding error at all.  Viete needs square roots
and therefore returns a certified interval instead.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exactnum import (
    PI_REFERENCE,
    Interval,
    Rational,
    UsageError,
    decimal_str,
    interval_add,
    interval_div,
    interval_mul,
    interval_sqrt,
    make_interval,
)

SERIES_NAMES = ("leibniz", "nilakantha", "brouncker", "wallis", "viete")


class UnsupportedSeriesName(UsageError):
    """Series tag is not one of SERIES_NAMES."""


class InvalidTermCount(UsageError):
    """Term count is out of range for the requested series."""


@dataclass(frozen=True)
class SeriesEstimate:
    series: str
    terms: int
    estimate: Rational | Interval
    error_vs_reference: str


def _leibniz(n: int) -> Rational:
    total = Rational(0)
    for i in range(n):
        total += Rational((-1) ** i, 2 * i + 1)
    return 4 * total


def _nilakantha(n: int) -> Rational:
    if n == 0:
        return Rational(0)
    total = Rational(3, 4)
    for j in range(2, n + 1):
        base = 2 * (j - 1)
        term = Rational(1, base * (base + 1) * (base + 2))
        total += term if j % 2 == 0 else -term
    return 4 * total


def _brouncker(n: int) -> Rational:
    tail = Rational(0)
    for i in range(n, 0, -1):
        tail = Rational((2 * i - 1) ** 2) / (2 + tail)
    return 4 / (1 + tail)


def _wallis(n: int) -> Rational:
    product = Rational(1)
    for j in range(1, n + 1):
        product *= Rational(4 * j * j, 4 * j * j - 1)
    return 2 * product


def _viete(n: int, precision: int) -> Interval:
    # product of the radical factors t_1 = sqrt(2), t_{j+1} = sqrt(2 + t_j);
    # the estimate is 2 / prod(t_j / 2) = 2**(n+1) / prod(t_j)
    two = make_interval(2, precision)
    factor = interval_sqrt(two)
    product = factor
    for _ in range(n - 1):
        factor = interval_sqrt(interval_add(two, factor))
        product = interval_mul(product, factor)
    return interval_div(make_interval(2 ** (n + 1), precision), product)


def evaluate_series(series: str, terms: int, precision: int) -> SeriesEstimate:
    """Exact truncation of one series, converted to a pi estimate.

    ``precision`` sets the Viete interval scale and the number of digits in
    the reported error; the rational series are exact regardless.
    """
    if series not in SERIES_NAMES:
        raise UnsupportedSeriesName(f"unknown series {series!r}")
    if precision < 1:
        raise UsageError("precision must be >= 1")
    min_terms = 1 if series in ("leibniz", "viete") else 0
    if terms < min_terms:
        raise InvalidTermCount(
            f"{series} needs terms >= {min_terms}, got {terms}")
    estimate: Rational | Interval
    if series == "leibniz":
        estimate = _leibniz(terms)
    elif series == "nilakantha":
        estimate = _nilakantha(terms)
    elif series == "brouncker":
        estimate = _brouncker(terms)
    elif series == "wallis":
        estimate = _wallis(terms)
    else:
        estimate = _viete(terms, precision)
    value = estimate.midpoint() if isinstance(estimate, Interval) else estimate
    diff = value - PI_REFERENCE
    error = ("+" if diff >= 0 else "-") + decimal_str(abs(diff), precision)
    return SeriesEstimate(series=series, terms=terms, estimate=estimate,
                          error_vs_reference=error)


def convergence_report(series_list: list[str], n_max: int,
                       precision: int) -> list[SeriesEstimate]:
    """One row per (series, N) for N = 1..n_max, in the given series order."""
    if n_max < 1:
        raise InvalidTermCount(f"n_max must be >= 1, got {n_max}")
    return [evaluate_series(series, n, precision)
            for series in series_list
            for n in range(1, n_max + 1)]
